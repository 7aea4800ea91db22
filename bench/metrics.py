"""Metric definitions and the reduction of repeat records to metrics.

End-to-end metrics come from the untraced (``plain``) repeats.  Host
times are medians over repeats; simulated (``sim_*``) values are
deterministic for a seed, so every repeat reports the same number.
Per-layer metrics add the ``sample`` and ``count`` passes.
"""

from __future__ import annotations

import statistics
from collections import Counter

from .layers import HOST_SHARE_LAYERS, SCHEDULING_LAYERS

__all__ = ["END_TO_END", "PER_LAYER", "STAGES", "end_to_end", "per_layer",
           "quartiles", "trace_dump"]

#: Fig. 6 stages reported per layer (span stamp names)
STAGES = ("doorbell", "fetch", "lba_map", "qos", "forward", "ssd_dma",
          "backend_done", "push_exec", "complete", "interrupt")

#: name -> unit; sim_* are simulated time, the rest host-side
END_TO_END = {
    "setup_s": "s",
    "ops_per_host_s": "ops/s",
    "peak_rss_mib": "MiB",
    "sim_kops": "kops/sim_s",
    "sim_p50_us": "sim_us",
    "sim_p99_us": "sim_us",
}

PER_LAYER = {
    **{f"{layer}.host_share": "fraction" for layer in HOST_SHARE_LAYERS},
    **{f"{layer}.kernel_calls_per_op": "calls/op" for layer in SCHEDULING_LAYERS},
    "sim.kernel.events_per_op": "events/op",
    "sim.kernel.events_per_host_s": "events/s",
    **{f"stage.{s}.{stat}_ns": "sim_ns" for s in STAGES for stat in ("mean", "p99")},
    "host.driver.cmds_per_op": "cmds/op",
    "apps.minikv.device_reads_per_get": "reads/get",
    "push.backend_reads_per_exec": "reads/exec",
    "trace.overhead_pct": "%",
}


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _metric(values: list, unit: str) -> dict:
    q1, median, q3 = quartiles(values)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3, "values": values}


def _by_mode(records: list, mode: str) -> list:
    return [r for r in records if r["mode"] == mode]


def _samples(records: list) -> Counter:
    """Profile samples per layer, summed over the sampling passes."""
    samples = Counter()
    for r in _by_mode(records, "sample"):
        samples.update(r["samples"])
    return samples


def end_to_end(records: list) -> dict:
    """Every end-to-end metric, from the untraced repeats."""
    plain = _by_mode(records, "plain")
    values = {
        "setup_s": [r["setup_s"] for r in plain],
        "ops_per_host_s": [r["ops"] / r["cpu_s"] for r in plain],
        "peak_rss_mib": [r["rss_mib"] for r in plain],
        **{name: [r[name] for r in plain]
           for name in ("sim_kops", "sim_p50_us", "sim_p99_us")},
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(records: list) -> dict:
    """Every per-layer metric; needs all three passes in ``records``."""
    plain, sampled = _by_mode(records, "plain"), _by_mode(records, "sample")
    counted = _by_mode(records, "count")
    ref = plain[0]
    ops = ref["ops"]
    values: dict = {}

    samples = _samples(records)
    total = sum(samples.values())
    for layer in HOST_SHARE_LAYERS:
        values[f"{layer}.host_share"] = [_ratio(samples[layer], total)]

    calls = Counter()
    for layer, by_api in counted[0]["kernel_calls"].items():
        calls[layer] += sum(by_api.values())
    for layer in SCHEDULING_LAYERS:
        values[f"{layer}.kernel_calls_per_op"] = [_ratio(calls[layer], ops)]

    values["sim.kernel.events_per_op"] = [_ratio(ref["events"], ops)]
    values["sim.kernel.events_per_host_s"] = [r["events"] / r["cpu_s"] for r in plain]
    for stage in STAGES:
        hist = ref["stages"].get(stage, {})
        values[f"stage.{stage}.mean_ns"] = [hist.get("mean", 0.0)]
        values[f"stage.{stage}.p99_ns"] = [hist.get("p99", 0.0)]

    counts = ref["counts"]
    values["host.driver.cmds_per_op"] = [_ratio(counts["driver_cmds"], ops)]
    values["apps.minikv.device_reads_per_get"] = [
        _ratio(counts.get("get_device_reads", 0), counts.get("gets", 0))]
    values["push.backend_reads_per_exec"] = [
        _ratio(counts.get("push_backend_reads", 0), counts.get("push_execs", 0))]

    # the sampler's own time over the rest of the sampled timed phase:
    # host noise between processes is far wider than this cost, so the
    # difference between a sampled and an untraced child cannot show it
    values["trace.overhead_pct"] = [
        r["sampler_s"] / (r["cpu_s"] - r["sampler_s"]) * 100 for r in sampled]
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER.items()}


def trace_dump(workload: str, seed: int, records: list) -> dict:
    """The raw per-layer data of a traced run, for diffing layers."""
    ref = _by_mode(records, "plain")[0]
    return {
        "workload": workload,
        "seed": seed,
        "ops": ref["ops"],
        "samples": dict(sorted(_samples(records).items())),
        "kernel_calls": _by_mode(records, "count")[0]["kernel_calls"],
        "stages": ref["stages"],
    }
