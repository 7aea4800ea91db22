"""Compare two benchmark results: ``python bench/compare.py A.json B.json``.

``A`` is the parent commit, ``B`` the change; each file is what
``python -m bench --out FILE`` writes, and ``--append`` collects
several runs in one file.  Runs pair up in order (run i of A with run
i of B), so alternate the sides when producing them.

Each (end-to-end metric, workload) pair gets its own row, judged
against the metric's bound in ``BENCHMARK.json``:

* ``worse``: B's median is worse than A's by more than the bound.
* ``unresolved``: the run-to-run spread (quartile distance over the
  median, the wider side's) exceeds the bound, and not every run of B
  reads better than every run of A.
* ``better``: the claim rule holds: at least 10 pairs, B wins at least
  9 in 10 of them (ties count for neither side), and the medians differ
  by more than the distance between A's quartiles.
* ``within bound``: anything else.

With one run on a side, that side's spread comes from the quartiles of
its repeats.  Exits 1 when any row is worse.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:  # run as a script rather than with -m
    sys.path.insert(0, ROOT)

from bench.metrics import quartiles  # noqa: E402

__all__ = ["verdict", "compare"]

MIN_PAIRS = 10
WIN_SHARE = 0.9


def _points(runs: list, workload: str, metric: str) -> list:
    """One metric's per-run dicts (value, q1, q3) across runs."""
    return [run["workloads"][workload]["metrics"][metric]
            for run in runs
            if metric in run["workloads"].get(workload, {}).get("metrics", {})]


def _spread(points: list) -> tuple:
    """(median, q1, q3, relative spread) of one side."""
    if len(points) >= 2:
        q1, median, q3 = quartiles([p["value"] for p in points])
    else:
        q1, median, q3 = points[0]["q1"], points[0]["value"], points[0]["q3"]
    if median:
        rel = (q3 - q1) / abs(median)
    else:
        rel = 0.0 if q3 == q1 else float("inf")
    return median, q1, q3, rel


def verdict(a: list, b: list, bound: float, lower_is_better: bool) -> dict:
    """Judge B's values against A's for one metric (see module doc)."""
    sign = 1.0 if lower_is_better else -1.0

    def better(x, y):  # x reads better than y
        return sign * (y - x) > 0

    med_a, q1_a, q3_a, spread_a = _spread(a)
    med_b, _, _, spread_b = _spread(b)
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    worse_by = sign * change
    a_vals, b_vals = [p["value"] for p in a], [p["value"] for p in b]
    pairs = list(zip(a_vals, b_vals))
    wins = sum(better(y, x) for x, y in pairs)
    claim = (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
             and abs(med_b - med_a) > q3_a - q1_a)
    all_better = all(better(y, x) for x in a_vals for y in b_vals)
    if claim:
        word = "better"
    elif worse_by > bound:
        word = "worse"
    elif max(spread_a, spread_b) > bound and not all_better:
        word = "unresolved"
    else:
        word = "within bound"
    return {"verdict": word, "a": med_a, "b": med_b, "change": change,
            "spread": max(spread_a, spread_b), "pairs": len(pairs), "wins": wins}


def compare(a_runs: list, b_runs: list, benchmark: dict) -> list:
    """One row per (end-to-end metric, workload) present on both sides."""
    rows = []
    workloads = [w["name"] for w in benchmark["workloads"]]
    for metric in benchmark["end_to_end"]:
        for workload in workloads:
            a = _points(a_runs, workload, metric["name"])
            b = _points(b_runs, workload, metric["name"])
            if not a or not b:
                continue
            row = verdict(a, b, metric["bound"], metric["better"] == "lower")
            rows.append({"metric": metric["name"], "unit": metric["unit"],
                         "workload": workload, "bound": metric["bound"], **row})
    return rows


def render(rows: list) -> str:
    lines = [f"{'metric':<15} {'workload':<18} {'A median':>12} {'B median':>12} "
             f"{'change':>8} {'spread':>7} {'bound':>6} {'wins':>7}  verdict"]
    for r in rows:
        lines.append(
            f"{r['metric']:<15} {r['workload']:<18} {r['a']:>12.6g} {r['b']:>12.6g} "
            f"{r['change']:>+8.2%} {r['spread']:>7.2%} {r['bound']:>6.0%} "
            f"{r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}")
    return "\n".join(lines)


def _runs(path: str) -> list:
    with open(path) as fh:
        return json.load(fh)["runs"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a", help="parent results (python -m bench --out)")
    p.add_argument("b", help="change results")
    p.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = p.parse_args(argv)
    with open(args.benchmark) as fh:
        benchmark = json.load(fh)
    rows = compare(_runs(args.a), _runs(args.b), benchmark)
    print(render(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
