"""Self-tests of the benchmark at ``--quick`` scale.

Run from the repository root: ``python -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from bench import gate
from bench.__main__ import DEFAULT_SECONDS
from bench.compare import verdict
from bench.layers import HOST_SHARE_LAYERS, SCHEDULING_LAYERS, FileLayers
from bench.metrics import END_TO_END, PER_LAYER
from bench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "bench", "--quick", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two quick traced runs of every workload: (final lines, result files)."""
    out = tmp_path_factory.mktemp("bench")
    lines, results = [], []
    for i in range(2):
        path = out / f"run{i}.json"
        lines.append(_result_line(_bench("--traced", "--out", str(path))))
        results.append(json.loads(path.read_text())["runs"][0])
    return lines, results


def test_benchmark_json_declares_what_the_code_defines():
    assert BENCHMARK["run_seconds"] == DEFAULT_SECONDS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(PER_LAYER)


def test_untraced_run_emits_exactly_the_end_to_end_metrics():
    line = _result_line(_bench("--workload", "rr128-passthrough"))
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert {k: m["unit"] for k, m in line["metrics"].items()} == END_TO_END


def test_traced_run_emits_exactly_the_per_layer_metrics(traced):
    lines, results = traced
    expected = {f"{w}/{name}": unit for w in WORKLOADS for name, unit in PER_LAYER.items()}
    for line in lines:
        assert line["correct"] is True
        assert {k: m["unit"] for k, m in line["metrics"].items()} == expected
    for result in results:
        for summary in result["workloads"].values():
            assert set(summary["metrics"]) == set(END_TO_END)
    for workload in WORKLOADS:
        with open(os.path.join(ROOT, "bench", "out", f"{workload}.trace.json")) as fh:
            dump = json.load(fh)
        assert dump["samples"] and dump["kernel_calls"] and dump["stages"]


def _deterministic(name: str) -> bool:
    return (name.startswith(("sim_", "stage."))
            or name.endswith(("kernel_calls_per_op", "events_per_op")))


def test_two_runs_agree_on_every_simulated_metric(traced):
    lines, results = traced
    first, second = lines
    names = [k for k in first["metrics"] if _deterministic(k.split("/", 1)[1])]
    assert names
    for name in names:
        assert first["metrics"][name] == second["metrics"][name], name
    for workload in WORKLOADS:
        a, b = (r["workloads"][workload]["metrics"] for r in results)
        for name in END_TO_END:
            if _deterministic(name):
                assert a[name] == b[name], (workload, name)


def test_every_repro_module_maps_to_a_declared_layer():
    layers = FileLayers(SRC)
    seen = set()
    for dirpath, _, files in os.walk(os.path.join(SRC, "repro")):
        for name in files:
            if name.endswith(".py"):
                layer = layers.layer(os.path.join(dirpath, name))
                assert layer in HOST_SHARE_LAYERS, (dirpath, name)
                seen.add(layer)
    # a named layer with no module would silently read as zero
    named = {layer for layer in HOST_SHARE_LAYERS if not layer.endswith("other")}
    assert named <= seen
    assert set(SCHEDULING_LAYERS) <= set(HOST_SHARE_LAYERS)


def _good_record(**changes) -> dict:
    record = {"mode": "plain", "ops": 100, "failed": 0, "digest": "d0",
              "checks": {"spans_complete": True}, "anchor_err_pct": 0.4}
    record.update(changes)
    return record


@pytest.mark.parametrize("bad", [
    {"failed": 3},
    {"ops": 0},
    {"checks": {"spans_complete": False}},
    {"anchor_err_pct": 5.0},
    {"digest": "d1"},
    {"mode": "count", "kernel_calls": {"pcie": {"timeout": 2}}},
])
def test_gate_fails_a_bad_result(bad):
    good = [_good_record(), _good_record(mode="count", kernel_calls={"pcie": {"timeout": 1}})]
    assert gate.check("w", good) == []
    assert gate.check("w", good + [_good_record(**bad)])
    assert gate.check("w", []) != []


def _points(values):
    return [{"value": v, "q1": v, "q3": v} for v in values]


@pytest.mark.parametrize("a, b, expected", [
    ([100.0] * 10, [90.0] * 10, "better"),
    ([100.0] * 10, [112.0] * 10, "worse"),
    ([100.0] * 10, [104.0] * 10, "within bound"),
    ([80.0, 120.0] * 5, [100.0] * 10, "unresolved"),
    ([100.0] * 3, [90.0] * 3, "within bound"),
])
def test_compare_verdicts(a, b, expected):
    assert verdict(_points(a), _points(b), bound=0.1, lower_is_better=True)["verdict"] == expected


def test_bench_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench(cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
