"""hybridrank benchmark: one workload per run, or all three in turn.

    python3 perfbench/run.py --workload pipeline-2k --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
With ``--trace 0`` a run reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of ``layers.py`` (a separate, traced run).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run whose outputs fail a check exits with code 1.  Lines
before it print each metric with its unit and sample count, then the figures
recorded but not gated (serving percentiles, quality).  The full record
(sample counts, sha256 of the run files and manifest,
machine facts) is written to ``perfbench/results/``; a traced run also writes
its spans there.  See ``workloads.py`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import os
import sys

# One process, one BLAS thread: the benchmark measures single-client load and
# should not race other work on a small shared machine.  Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")

# end-to-end metric -> (unit, what it measures); workloads.py says why these
# three are the gated ones
END_TO_END = {
    "setup_s": ("s", "median time to generate and write the inputs; on serve-20k "
                     "plus building index, encoder, lambda and reranker"),
    "run_s": ("s", "wall time of run_experiment; on serve-20k the summed latency "
                   "of its first 1200 queries"),
    "peak_rss_mb": ("MB", "peak resident memory of the run's process"),
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def _import_program():
    """Import hybridrank from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import hybridrank
    except ImportError as exc:
        sys.exit(f"cannot import hybridrank from {SRC}: {exc}")
    if not os.path.abspath(hybridrank.__file__).startswith(SRC + os.sep):
        sys.exit(f"hybridrank was imported from {hybridrank.__file__}, not {SRC}")


def _run_all(args) -> int:
    """Each workload in a fresh subprocess; prints their tables and one
    combined result line with metrics named <workload>.<metric>."""
    import json
    import subprocess

    from workloads import WORKLOADS
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            code = 1
            total["correct"] = False
            if not lines or not lines[-1].startswith("{"):
                continue
        line = json.loads(lines[-1])
        total["correct"] &= line["correct"]
        total["attempted"] += line["attempted"]
        total["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    if args.workload == "all":
        return _run_all(args)

    import json
    import resource
    import shutil

    import facts
    from layers import PER_LAYER
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; expected one of "
                 f"{sorted(WORKLOADS)} or 'all'")
    w = WORKLOADS[args.workload]
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    # The experiment's config.json, and so its manifest, holds the input and
    # work paths: keep them relative to the checkout and free of random parts,
    # so equal outputs give equal hashes in any checkout.
    os.chdir(ROOT)
    workdir = os.path.relpath(os.path.join(WORK, tag), ROOT)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(RESULTS, exist_ok=True)
    try:
        result, tracer = run_workload(w, args.seed, args.seconds, bool(args.trace),
                                      workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        tracer.write(os.path.join(RESULTS, tag + ".spans.jsonl"))
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        result.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        result.counts["peak_rss_mb"] = 1
        units = {k: v[0] for k, v in END_TO_END.items()}
    checks = result.checks
    metrics = {k: {"value": v, "unit": units[k]} for k, v in result.metrics.items()}
    record = {
        "workload": w.name, "why": w.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "samples": result.counts,
        "recorded": result.recorded,
        "attempted": checks.attempted, "failed": len(checks.failures),
        "error_rate": len(checks.failures) / max(checks.attempted, 1),
        "failures": checks.failures[:50], "absent_probes": result.absent,
        **result.info, "machine": facts.machine(ROOT, BLAS_THREADS),
    }
    with open(os.path.join(RESULTS, tag + ".json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True, default=str)
        f.write("\n")

    print(f"# {w.name} seed={args.seed} trace={args.trace}: {w.why}")
    for name, m in metrics.items():
        n = result.counts.get(name)
        print(f"{name:34s} {m['value']:14.6g} {m['unit']:6s}"
              + (f" n={n}" if n is not None else ""))
    for name in result.info.get("absent_metrics", []):
        print(f"{name:34s} {'absent':>14s}")
    for name, rec in result.recorded.items():
        print(f"# recorded {name:25s} {rec['value']:14.6g} {rec['unit']:6s} "
              f"n={rec['samples']}")
    print(f"# lambda={result.info.get('lambda')} on_grid_edge="
          f"{result.info.get('lambda_on_grid_edge')}")
    print(f"# error_rate={record['error_rate']:.4g} "
          f"({record['failed']}/{record['attempted']} operations failed)")
    for failure in checks.failures[:10]:
        print(f"# FAILED {failure}")
    ok = not checks.failures and checks.attempted > 0
    print(json.dumps({"correct": ok, "attempted": checks.attempted,
                      "failed": len(checks.failures), "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
