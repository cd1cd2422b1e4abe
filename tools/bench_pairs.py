"""Alternating parent/change benchmark pairs, summarized as a BENCH_<label>.json block.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload pipeline-2k --seeds 2001-2010 --label my-change

``--parent`` and ``--change`` are two checkouts of the repository.  For each
seed, in order, the script runs ``python3 perfbench/run.py --workload W --seed S
--seconds <run_seconds> --trace 0`` once in each checkout, the parent first on
even pairs (0, 2, ...) and the change first on odd ones; ``run_seconds``, the
gated metrics and their bounds come from the change's ``BENCHMARK.json``.
``--workload all`` runs every workload in one call per side.  After each run
it reads that side's ``perfbench/results/<workload>-seed<S>-trace0.json``.

The summary goes into the ``end_to_end`` block of ``BENCH_<label>.json`` in
the current directory, one entry per workload; other keys of an existing file
are kept.  Per metric it gives each side's quartiles, the parent's IQR, the
median gap (positive when the change is better), change/parent of the
medians and the number of pairs the change wins.  ``within_bound`` says the
change's median is no worse than the parent's by more than bound x the
parent's median; ``unresolved`` says the parent's IQR is wider than that,
unless every change run beats every parent run.  Per pair it records whether
every run-file and manifest.json hash, and lambda, are equal on both sides,
which hashed files differ, and on a serving workload the number of queries
each side served.

A run that writes no result (perfbench died) is listed as ``[seed, side]``
under the workload's ``missing_runs``, and its pair is left out of the
summary; the script goes on with the next seed, writes the file and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list[int]:
    """``"A-B"`` -> [A, ..., B]; ``"A"`` -> [A]."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3], linear between order statistics (numpy's default)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize_metric(pairs: list[tuple[int, float, float]], better: str,
                     bound: float) -> dict:
    """One metric over (seed, parent, change) pairs."""
    parent = [p for _, p, _ in pairs]
    change = [c for _, _, c in pairs]
    pq, cq = quartiles(parent), quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    allowed = bound * pq[1]
    clear_win = all(sign * (p - c) > 0 for p in parent for c in change)
    return {
        "bound": bound,
        "parent_quartiles": [round(v, 4) for v in pq],
        "change_quartiles": [round(v, 4) for v in cq],
        "parent_iqr": round(pq[2] - pq[0], 4),
        "median_gap": round(sign * (pq[1] - cq[1]), 4),
        "change_over_parent": round(cq[1] / pq[1], 4) if pq[1] else None,
        "change_better_pairs": sum(sign * (p - c) > 0 for _, p, c in pairs),
        "within_bound": sign * (cq[1] - pq[1]) <= allowed,
        "unresolved": pq[2] - pq[0] > allowed and not clear_win,
    }


def differing(parent: dict, change: dict) -> list[str]:
    """Names of the hashed files whose sha256 differs between two file -> sha256
    maps, or that only one of them has, sorted."""
    return sorted(name for name in parent.keys() | change.keys()
                  if parent.get(name) != change.get(name))


def summarize(records: list[tuple[int, dict, dict]], metrics: list[dict]) -> dict:
    """One workload's block from (seed, parent record, change record) triples.

    A record is a perfbench result: ``metrics`` (name -> {"value"}), ``failed``,
    ``info`` keys ``hashes`` and ``lambda`` at the top level, and for serving
    ``recorded.serve_qps.samples``.  ``metrics`` are BENCHMARK.json's
    ``end_to_end`` entries.
    """
    block = {"pairs": len(records), "metrics": {}, "per_pair": {}}
    for m in metrics:
        name = m["name"]
        pairs = [(seed, p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for seed, p, c in records]
        block["metrics"][name] = summarize_metric(pairs, m["better"], m["bound"])
        block["per_pair"][name] = [[s, round(p, 4), round(c, 4)] for s, p, c in pairs]
    diffs = [[seed, differing(p.get("hashes") or {}, c.get("hashes") or {})]
             for seed, p, c in records]
    equal = [[seed, not files and bool(p.get("hashes")), p.get("lambda") == c.get("lambda")]
             for (seed, p, c), (_, files) in zip(records, diffs)]
    block["equal_per_pair"] = equal
    block["all_hashes_equal"] = all(h for _, h, _ in equal)
    block["differing_files_per_pair"] = diffs
    block["differing_files"] = sorted({name for _, files in diffs for name in files})
    block["lambda_equal"] = all(lam for _, _, lam in equal)
    block["failed"] = {"parent": sum(p["failed"] for _, p, _ in records),
                       "change": sum(c["failed"] for _, _, c in records)}
    if all("serve_qps" in r.get("recorded", {}) for _, p, c in records for r in (p, c)):
        block["served_per_pair"] = [[seed, p["recorded"]["serve_qps"]["samples"],
                                     c["recorded"]["serve_qps"]["samples"]]
                                    for seed, p, c in records]
    return block


def _run(checkout: str, workload: str, seed: int, seconds: float) -> None:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    print(f"# {checkout}: {' '.join(cmd[1:])}", flush=True)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)


def _result(checkout: str, workload: str, seed: int) -> dict | None:
    """That run's perfbench result, or None if it wrote none."""
    path = os.path.join(checkout, "perfbench", "results",
                        f"{workload}-seed{seed}-trace0.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seeds", required=True, help="A-B, inclusive")
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = p.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    names = ([w["name"] for w in bench["workloads"]] if args.workload == "all"
             else [args.workload])
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    records: dict[str, list] = {name: [] for name in names}
    missing: dict[str, list] = {name: [] for name in names}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            # a stale result from an earlier run must not stand in for a failed one
            for name in names:
                stale = os.path.join(sides[side], "perfbench", "results",
                                     f"{name}-seed{seed}-trace0.json")
                if os.path.exists(stale):
                    os.remove(stale)
            _run(sides[side], args.workload, seed, bench["run_seconds"])
            got[side] = {name: _result(sides[side], name, seed) for name in names}
        for name in names:
            lost = [[seed, side] for side in sides if got[side][name] is None]
            missing[name] += lost
            if not lost:
                records[name].append((seed, got["parent"][name], got["change"][name]))

    out_path = f"BENCH_{args.label}.json"
    out = {"label": args.label}
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as f:
            out = json.load(f)
    end_to_end = out.setdefault("end_to_end", {})
    for name in names:
        block = summarize(records[name], bench["end_to_end"]) if records[name] else {"pairs": 0}
        block["missing_runs"] = missing[name]
        end_to_end[name] = block
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    for name in names:
        for metric, s in end_to_end[name].get("metrics", {}).items():
            print(f"{name:16s} {metric:12s} parent {s['parent_quartiles'][1]:10.4f} "
                  f"change {s['change_quartiles'][1]:10.4f} gap {s['median_gap']:9.4f} "
                  f"iqr {s['parent_iqr']:8.4f} better {s['change_better_pairs']}/"
                  f"{end_to_end[name]['pairs']} within_bound {s['within_bound']!s:5s} "
                  f"unresolved {s['unresolved']}")
        if missing[name]:
            print(f"{name:16s} missing runs {missing[name]}", file=sys.stderr)
    return 1 if any(missing.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
