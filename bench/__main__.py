"""Run the benchmark: ``python -m bench [options]``.

Each repeat of a workload runs in a fresh child interpreter, one child
at a time, with every ``REPRO_*`` variable stripped and invariant
checkers off.  Untraced repeats give the end-to-end metrics; with
``--trace 1`` (or ``--traced``) every cycle adds a sampling pass and a
kernel-call counting pass, which give the per-layer metrics.  Repeats
continue until ``--seconds`` of measuring would be exceeded.

Prints every metric with its unit, runs the correctness gate, writes
``bench/out/result.json`` (and ``<workload>.trace.json`` when traced),
and ends stdout with one JSON line: ``correct``, ``attempted``,
``failed`` and the metrics.  Exits 1 when the gate fails and 2 when a
workload cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from . import gate
from .metrics import end_to_end, per_layer, trace_dump
from .workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
#: each workload must finish inside this many seconds of host time
WORKLOAD_DEADLINE_S = 170.0
#: the run length BENCHMARK.json declares
DEFAULT_SECONDS = 20.0


class BenchError(Exception):
    """A workload could not run to completion."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, mode: str, quick: bool,
              timeout: float) -> dict:
    """One repeat in a fresh interpreter; returns its record."""
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before the {mode} pass")
    job = json.dumps({"workload": workload, "seed": seed, "mode": mode,
                      "quick": quick})
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bench.child", job], cwd=ROOT,
            env=_child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} ({mode}) ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} ({mode}) exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-3000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    # set-up: interpreter start to the timed phase (CLOCK_MONOTONIC is
    # system-wide, so parent and child stamps compare)
    record["setup_s"] = record.pop("timed_start") - spawned
    return record


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> list:
    """Cycles of repeats until the next would overrun ``seconds``."""
    modes = ("plain", "sample", "count") if trace else ("plain",)
    min_cycles = 1 if trace or quick else 3
    start = time.monotonic()
    deadline = start + WORKLOAD_DEADLINE_S
    records, cycles = [], []
    while True:
        began = time.monotonic()
        for mode in modes:
            records.append(run_child(workload, seed, mode, quick,
                                     deadline - time.monotonic()))
        cycles.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if len(cycles) >= min_cycles and elapsed + statistics.median(cycles) > seconds:
            return records


def summarize(records: list, trace: bool) -> dict:
    plain = [r for r in records if r["mode"] == "plain"]
    attempted = sum(r["ops"] for r in records)
    failed = sum(r["failed"] for r in records)
    summary = {
        "attempted": attempted,
        "failed": failed,
        "repeats": len(plain),
        "metrics": end_to_end(records),
        "info": {"failed_frac": failed / max(1, attempted),
                 "sim_mean_us": plain[0]["sim_mean_us"]},
    }
    if "anchor_err_pct" in plain[0]:
        summary["info"]["anchor_err_pct"] = plain[0]["anchor_err_pct"]
    if trace:
        summary["per_layer"] = per_layer(records)
    return summary


def render(workload: str, summary: dict) -> str:
    lines = [f"{workload}: {summary['repeats']} untraced repeats, "
             f"{summary['attempted']} ops attempted, {summary['failed']} failed"]
    for group in ("metrics", "per_layer"):
        for name, m in summary.get(group, {}).items():
            lines.append(f"  {name:<38} {m['value']:>16.6g} {m['unit']:<11}"
                         f" q1 {m['q1']:.6g}  q3 {m['q3']:.6g}")
    for name, value in summary["info"].items():
        lines.append(f"  {name:<38} {value:>16.6g} (info)")
    return "\n".join(lines)


def _write_json(path: str, doc) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _save(path: str, run: dict, append: bool) -> None:
    runs = []
    if append and os.path.exists(path):
        with open(path) as fh:
            runs = json.load(fh)["runs"]
    _write_json(path, {"kind": "bmstore-bench", "runs": runs + [run]})


def _parse(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=list(WORKLOADS),
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=None,
                   help=f"measuring time per workload (default {DEFAULT_SECONDS:g}, "
                        "0 with --quick)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 adds the per-layer passes")
    p.add_argument("--traced", dest="trace", action="store_const", const=1,
                   help="same as --trace 1")
    p.add_argument("--quick", action="store_true",
                   help="tiny windows and one cycle, for self-tests")
    p.add_argument("--out", default=os.path.join(OUT_DIR, "result.json"))
    p.add_argument("--append", action="store_true",
                   help="add this run to --out instead of replacing it")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else DEFAULT_SECONDS
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"bench: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    workloads = args.workload or list(WORKLOADS)
    trace = bool(args.trace)
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    summaries, failures = {}, []
    try:
        for workload in workloads:
            records = run_workload(workload, args.seed, args.seconds, trace, args.quick)
            failures += gate.check(workload, records)
            summaries[workload] = summarize(records, trace)
            print(render(workload, summaries[workload]), flush=True)
            if trace:
                _write_json(os.path.join(OUT_DIR, f"{workload}.trace.json"),
                            trace_dump(workload, args.seed, records))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for failure in failures:
        print(f"bench: FAIL {failure}", file=sys.stderr)
    _save(args.out, {"started": started, "seed": args.seed, "seconds": args.seconds,
                     "trace": int(trace), "quick": args.quick,
                     "correct": not failures, "failures": failures,
                     "workloads": summaries}, args.append)

    group = "per_layer" if trace else "metrics"
    metrics = {}
    for workload, summary in summaries.items():
        prefix = "" if len(summaries) == 1 else f"{workload}/"
        for name, m in summary[group].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
