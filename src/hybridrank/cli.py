"""Command-line front end: every pipeline stage runs standalone from files.

Subcommands: make-synth, index, train-de, qgen, filter, tune-lambda, retrieve,
gen-train, train-reranker, rerank, eval, ablate, run.  Exit code 0 only on
success; tables go to stdout and JSON artifacts to files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

# Heavy modules are imported inside the command handlers, not here: --threads
# must write the *_NUM_THREADS variables before numpy first loads its BLAS.
from .corpus import DEFAULT_PASSAGE_LENGTH, DEFAULT_QUERY_LENGTH, \
    DEFAULT_VOCAB_SIZE, load_corpus, load_qrels, load_queries


def _write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _seed(args, fallback: int = 0) -> int:
    value = getattr(args, "seed", None)
    return value if value is not None else fallback


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"bad grid {text!r}; expected comma-separated numbers") from None


def _add_token_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vocab-size", type=int, default=DEFAULT_VOCAB_SIZE)
    p.add_argument("--query-max-length", type=int, default=DEFAULT_QUERY_LENGTH)
    p.add_argument("--passage-max-length", type=int, default=DEFAULT_PASSAGE_LENGTH)


def _bm25_params(args):
    from .bm25 import Bm25Params, PARAM_PRESETS
    if args.preset:
        if args.preset not in PARAM_PRESETS:
            raise ValueError(f"unknown preset {args.preset!r}; "
                             f"choose from {sorted(PARAM_PRESETS)}")
        return PARAM_PRESETS[args.preset]
    return Bm25Params(k=args.k, b=args.b)


def _cmd_make_synth(args) -> int:
    from .synthetic import SyntheticCorpusSpec, make_synthetic_corpus, \
        save_synthetic_data
    spec = SyntheticCorpusSpec(
        n_passages=args.n_passages, n_train_queries=args.train_queries,
        n_test_queries=args.test_queries, synonym_table_size=args.synonym_table,
        lexical_fraction=args.lexical_fraction, seed=_seed(args))
    data = make_synthetic_corpus(spec)
    paths = save_synthetic_data(data, args.out)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


def _cmd_index(args) -> int:
    from .bm25 import Bm25Index, save_index
    corpus = load_corpus(args.corpus)
    index = Bm25Index(corpus, params=_bm25_params(args),
                      vocab_size=args.vocab_size,
                      max_length=args.passage_max_length,
                      query_max_length=args.query_max_length)
    save_index(index, args.out)
    print(f"indexed {len(index)} passages -> {args.out}")
    return 0


def _dim_kwargs(args) -> dict:
    return {} if args.dim is None else {"dim": args.dim}


def _de_config(args):
    from .dense import DeTrainConfig
    return DeTrainConfig(batch_size=args.batch_size, epochs=args.epochs,
                         learning_rate=args.learning_rate,
                         temperature=args.temperature, seed=_seed(args),
                         vocab_size=args.vocab_size,
                         query_max_length=args.query_max_length,
                         passage_max_length=args.passage_max_length,
                         **_dim_kwargs(args))


def _cmd_train_de(args) -> int:
    from .dense import TrainPair, save_params, train_de
    corpus = load_corpus(args.corpus)
    queries = load_queries(args.queries)
    qrels = load_qrels(args.qrels)
    pairs = []
    for q in queries:
        for pid in sorted(qrels.relevant(q.id)):
            pairs.append(TrainPair(query=q, positive=corpus.get(pid)))
    if not pairs:
        raise ValueError("no (query, relevant passage) pairs in the qrels")
    params = train_de(pairs, _de_config(args))
    save_params(params, args.out)
    print(f"trained on {len(pairs)} pairs -> {args.out}")
    return 0


def _cmd_qgen(args) -> int:
    from .qgen import generate_queries, sample_corpus, save_pairs
    corpus = load_corpus(args.corpus)
    if args.sample_passages:
        corpus = sample_corpus(corpus, args.sample_passages, _seed(args))
    pairs = generate_queries(corpus, mode=args.mode,
                             max_per_passage=args.max_per_passage, seed=_seed(args))
    save_pairs(pairs, args.out)
    print(f"generated {len(pairs)} pairs -> {args.out}")
    return 0


def _cmd_filter(args) -> int:
    from .dense import load_params
    from .qgen import load_pairs, round_trip_filter, save_filter_report, save_pairs
    corpus = load_corpus(args.corpus)
    pairs = load_pairs(args.pairs, corpus)
    de0 = load_params(args.de_params)
    kept = round_trip_filter(pairs, de0, corpus,
                             query_max_length=args.query_max_length,
                             passage_max_length=args.passage_max_length)
    save_pairs(kept, args.out)
    report = {"before": len(pairs), "after": len(kept),
              "kept_ratio": len(kept) / len(pairs) if pairs else 0.0}
    if args.report:
        save_filter_report(report, args.report)
    print(f"kept {report['after']}/{report['before']} "
          f"({report['kept_ratio']:.3f}) -> {args.out}")
    return 0


def _load_or_build_bm25(args, corpus):
    from .bm25 import Bm25Index, load_index
    if getattr(args, "bm25_index", None):
        return load_index(args.bm25_index)
    return Bm25Index(corpus, params=_bm25_params(args),
                     vocab_size=args.vocab_size,
                     max_length=args.passage_max_length,
                     query_max_length=args.query_max_length)


def _cmd_tune_lambda(args) -> int:
    from .dense import encode_corpus, load_params, normalize_rows
    from .hybrid import DEFAULT_LAMBDA_GRID, HybridIndex, tune_lambda
    corpus = load_corpus(args.corpus)
    queries = load_queries(args.queries)
    qrels = load_qrels(args.qrels)
    encoder = load_params(args.de_params)
    bm25_index = _load_or_build_bm25(args, corpus)
    rows = normalize_rows(encode_corpus(encoder, corpus, args.passage_max_length))
    index = HybridIndex(bm25_index, encoder, rows, lam=0.0)
    grid = _parse_grid(args.grid) if args.grid else DEFAULT_LAMBDA_GRID
    lam = tune_lambda(index, queries, qrels, grid=grid, metric=args.metric,
                      cutoff=args.cutoff)
    print(f"lambda = {lam}")
    if args.out:
        _write_json({"lambda": lam, "grid": list(grid), "metric": args.metric},
                    args.out)
    return 0


def _resolve_lambda(args) -> float:
    from .hybrid import DEFAULT_LAMBDA
    if args.lambda_file:
        with open(args.lambda_file, encoding="utf-8") as f:
            return float(json.load(f)["lambda"])
    if args.lam is not None:
        return args.lam
    return DEFAULT_LAMBDA


def _cmd_retrieve(args) -> int:
    from .bm25 import retrieve
    from .dense import de_retrieve, encode_corpus, load_params, normalize_rows
    from .evaluation import RunFile, write_run
    from .hybrid import HybridIndex, hybrid_retrieve
    corpus = load_corpus(args.corpus)
    queries = load_queries(args.queries)
    if args.method in ("de", "hybrid") and not args.de_params:
        raise ValueError(f"--de-params is required for method {args.method!r}")
    if args.method == "bm25":
        index = _load_or_build_bm25(args, corpus)
        lists = [retrieve(index, q, args.depth) for q in queries]
    elif args.method == "de":
        encoder = load_params(args.de_params)
        rows = normalize_rows(encode_corpus(encoder, corpus, args.passage_max_length))
        lists = [de_retrieve(encoder, corpus, q, args.depth,
                             query_max_length=args.query_max_length,
                             passage_matrix=rows)
                 for q in queries]
    else:
        encoder = load_params(args.de_params)
        bm25_index = _load_or_build_bm25(args, corpus)
        rows = normalize_rows(encode_corpus(encoder, corpus,
                                            args.passage_max_length))
        index = HybridIndex(bm25_index, encoder, rows, lam=_resolve_lambda(args))
        lists = [hybrid_retrieve(index, q, args.depth) for q in queries]
    run = RunFile.from_candidates(lists, run_tag=args.run_tag or args.method)
    write_run(run, args.out)
    print(f"{len(lists)} queries -> {args.out}")
    return 0


def _cmd_gen_train(args) -> int:
    from .evaluation import read_run
    from .reranker import SamplingWindow, build_candidate_lists, \
        save_candidate_lists
    run = read_run(args.run)
    qrels = load_qrels(args.qrels)
    window = SamplingWindow(skip=args.skip, depth=args.depth,
                            n_negatives=args.negatives)
    lists, report = build_candidate_lists(run, qrels, window, seed=_seed(args))
    save_candidate_lists(lists, args.out)
    if args.report:
        _write_json(report, args.report)
    print(f"{report['lists']} lists "
          f"({len(report['dropped_no_positive'])} dropped, "
          f"{len(report['short_pool'])} short) -> {args.out}")
    return 0


def _cmd_train_reranker(args) -> int:
    corpus = load_corpus(args.corpus)
    queries = load_queries(args.queries)
    lists = load_candidate_lists(args.lists)
    config = RerankTrainConfig(steps=args.steps, batch_size=args.batch_size,
                               learning_rate=args.learning_rate, seed=_seed(args),
                               vocab_size=args.vocab_size, dim=args.dim,
                               query_max_length=args.query_max_length,
                               passage_max_length=args.passage_max_length)
    init = None
    if args.init_embeddings:
        encoder = load_params(args.init_embeddings)
        init = init_reranker(seed=_seed(args), embeddings=encoder.embeddings)
    params = train_reranker(lists, queries, corpus, config, init=init)
    save_reranker(params, args.out)
    print(f"trained on {len(lists)} lists -> {args.out}")
    return 0


def _cmd_rerank(args) -> int:
    params = load_reranker(args.reranker)
    run = read_run(args.run)
    queries = load_queries(args.queries)
    corpus = load_corpus(args.corpus)
    out = rerank(params, run, queries, corpus, top_k=args.top_k,
                 query_max_length=args.query_max_length,
                 passage_max_length=args.passage_max_length,
                 run_tag=args.run_tag)
    write_run(out, args.out)
    print(f"reranked top-{args.top_k} of {len(run.rankings)} queries -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    run = read_run(args.run)
    qrels = load_qrels(args.qrels)
    reports = {
        "mrr@10": compute_metric(run, qrels, "mrr", 10),
        "ndcg@10": compute_metric(run, qrels, "ndcg", 10),
        "recall@100": compute_metric(run, qrels, "recall", 100),
    }
    table = {run.run_tag: {name: r.mean for name, r in reports.items()}}
    print(format_metric_table(table))
    excluded = reports["mrr@10"].excluded
    if excluded:
        print(f"excluded (no judged-relevant passage): {len(excluded)}")
    if args.json:
        _write_json({"run_tag": run.run_tag,
                     "metrics": {n: r.mean for n, r in reports.items()},
                     "per_query": {n: dict(sorted(r.per_query.items()))
                                   for n, r in reports.items()},
                     "excluded": excluded}, args.json)
    return 0


def _experiment_config(args):
    path = args.config
    if not path:
        raise ValueError("--config is required (JSON experiment config)")
    config = load_config(path)
    if args.workdir:
        config = replace(config, workdir=args.workdir)
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    return config


def _cmd_run(args) -> int:
    report = run_experiment(_experiment_config(args))
    print(f"lambda = {report['lambda']}")
    print(format_metric_table(report["metrics"]))
    return 0


def _cmd_ablate(args) -> int:
    report = ablation_matrix(_experiment_config(args),
                             include_mixed=not args.no_mixed)
    print(f"lambda = {report['lambda']}")
    for metric in ("mrr", "ndcg"):
        print(f"\n{metric}@10 (rows: reranker training source; "
              f"columns: first stage)")
        print(format_metric_table(report["matrix"][metric]))
    if report["mixed"] is not None:
        print("\nmixed 1:1 (bm25+de) reranker, mrr@10:")
        print(format_metric_table(
            {"mixed": {c: report["mixed"][c]["mrr@10"] for c in report["mixed"]}}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridrank",
        description="Hybrid sparse+dense retrieval with a trained reranker.")
    parser.add_argument("--config", help="JSON experiment config (run/ablate)")
    parser.add_argument("--workdir", help="override the config workdir")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="cap BLAS threads (sets *_NUM_THREADS)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n-passages", type=int, default=2000)
    p.add_argument("--train-queries", type=int, default=400)
    p.add_argument("--test-queries", type=int, default=200)
    p.add_argument("--synonym-table", type=int, default=200)
    p.add_argument("--lexical-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="stage seed (falls back to the global --seed, then 0)")
    p.set_defaults(func=_cmd_make_synth)

    p = sub.add_parser("index", help="build and save a BM25 index")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=float, default=0.9)
    p.add_argument("--b", type=float, default=0.8)
    p.add_argument("--preset", help=f"one of {sorted(PARAM_PRESETS)}")
    _add_token_flags(p)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("train-de", help="train the dual encoder on qrels pairs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--temperature", type=float, default=0.05)
    p.add_argument("--dim", type=int, default=DEFAULT_DIM)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="stage seed (falls back to the global --seed, then 0)")
    _add_token_flags(p)
    p.set_defaults(func=_cmd_train_de)

    p = sub.add_parser("qgen", help="extract synthetic (query, passage) pairs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("sentence", "crop"), default="sentence")
    p.add_argument("--max-per-passage", type=int, default=1)
    p.add_argument("--sample-passages", type=int, default=None)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="stage seed (falls back to the global --seed, then 0)")
    p.set_defaults(func=_cmd_qgen)

    p = sub.add_parser("filter", help="round-trip filter generated pairs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--de-params", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    _add_token_flags(p)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("tune-lambda", help="grid-search the fusion weight")
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--de-params", required=True)
    p.add_argument("--bm25-index")
    p.add_argument("--grid", help="comma-separated values")
    p.add_argument("--metric", choices=("mrr", "ndcg", "recall"), default="mrr")
    p.add_argument("--cutoff", type=int, default=10)
    p.add_argument("--out")
    p.add_argument("--k", type=float, default=0.9)
    p.add_argument("--b", type=float, default=0.8)
    p.add_argument("--preset")
    _add_token_flags(p)
    p.set_defaults(func=_cmd_tune_lambda)

    p = sub.add_parser("retrieve", help="run a first-stage retriever")
    p.add_argument("--method", choices=("bm25", "de", "hybrid"), required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--depth", type=int, default=100)
    p.add_argument("--bm25-index")
    p.add_argument("--de-params")
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--lambda-file")
    p.add_argument("--run-tag")
    p.add_argument("--k", type=float, default=0.9)
    p.add_argument("--b", type=float, default=0.8)
    p.add_argument("--preset")
    _add_token_flags(p)
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("gen-train", help="sample training candidate lists")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--skip", type=int, default=0)
    p.add_argument("--depth", type=int, default=250)
    p.add_argument("--negatives", type=int, default=50)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="stage seed (falls back to the global --seed, then 0)")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_gen_train)

    p = sub.add_parser("train-reranker", help="train the cross-attention reranker")
    p.add_argument("--lists", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--learning-rate", type=float, default=0.05)
    p.add_argument("--dim", type=int, default=DEFAULT_DIM)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="stage seed (falls back to the global --seed, then 0)")
    p.add_argument("--init-embeddings",
                   help="dual-encoder params file to warm-start embeddings")
    _add_token_flags(p)
    p.set_defaults(func=_cmd_train_reranker)

    p = sub.add_parser("rerank", help="rescore the top of a run")
    p.add_argument("--reranker", required=True)
    p.add_argument("--run", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--top-k", type=int, default=50)
    p.add_argument("--run-tag")
    _add_token_flags(p)
    p.set_defaults(func=_cmd_rerank)

    p = sub.add_parser("eval", help="score a run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--json")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("run", help="full pipeline from a JSON config")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("ablate", help="reranker-source x first-stage matrix")
    p.add_argument("--no-mixed", action="store_true",
                   help="skip the 1:1 mixed-source baseline")
    p.set_defaults(func=_cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
