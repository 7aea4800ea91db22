"""The benchmark's four workloads, run one repeat at a time in a child.

Every workload is closed-loop and seeded: the seed picks the random
streams of the simulated world, so one seed gives one set of inputs
and one simulated result.  The program sees only ``repro``'s public
API: ``run_case`` with an explicit ``FioSpec``, ``build_bmstore``,
``MiniKV`` and ``YCSBRun``, and the obs snapshot.

``run`` returns one JSON-able record per repeat.  The *timed phase* is
the part measured in host time; everything before it is set-up.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, replace

__all__ = ["FioWorkload", "KVWorkload", "WORKLOADS"]


class _TimedPhase:
    """Wall and CPU time of the timed phase, with the tracer armed."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.start_monotonic = time.monotonic()
        self.tracer.start()
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *exc):
        self.host_s = time.perf_counter() - self._wall
        self.cpu_s = time.process_time() - self._cpu
        self.tracer.stop()


def _digest(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()


def _stages(snapshot: dict) -> dict:
    """Fig. 6 stage histograms (sim ns) from an obs snapshot."""
    prefix = "span_stage_ns{stage="
    return {key[len(prefix):-1]: summary
            for key, summary in snapshot["histograms"].items()
            if key.startswith(prefix)}


def _span_checks(obs, engine_path: bool) -> dict:
    spans = list(obs.spans)
    checks = {"spans_recorded": bool(spans),
              "spans_monotone": all(s.is_monotone for s in spans)}
    if engine_path:
        # PUSH_EXEC spans never stamp lba_map (the program translates
        # per hop), so completeness is asked of block I/O only
        checks["spans_complete"] = all(
            s.is_complete for s in spans if s.op in ("read", "write"))
    return checks


def _record(phase: _TimedPhase, *, ops: int, failed: int, latency,
            window_ns: int, events: int, snapshot: dict, counts: dict,
            checks: dict, outputs: dict) -> dict:
    """The fields every workload reports for one repeat."""
    return {
        "timed_start": phase.start_monotonic,
        "host_s": phase.host_s,
        "cpu_s": phase.cpu_s,
        "ops": ops,
        "failed": failed,
        "sim_kops": ops * 1e6 / window_ns,
        "sim_p50_us": latency.p50_ns / 1e3,
        "sim_p99_us": latency.p99_ns / 1e3,
        "sim_mean_us": latency.mean_ns / 1e3,
        "events": events,
        "stages": _stages(snapshot),
        "counts": counts,
        "checks": checks,
        # every simulated output of the repeat: identical across
        # repeats and tracer passes, or the benchmark is wrong
        "digest": _digest({**outputs, "events": events,
                           "latency": asdict(latency), "snapshot": snapshot}),
    }


@dataclass(frozen=True)
class FioWorkload:
    """One Table IV fio case on one scheme, 1-SSD namespace."""

    scheme: str
    case: str
    runtime_ms: float
    ramp_ms: float
    quick_runtime_ms: float
    quick_ramp_ms: float

    def run(self, seed: int, quick: bool, tracer) -> dict:
        from repro.experiments.common import run_case
        from repro.experiments.fig8_table5 import PAPER_LATENCY_US
        from repro.obs import MetricsRegistry
        from repro.sim.units import MS
        from repro.workloads.fio import TABLE_IV_CASES

        runtime, ramp = ((self.quick_runtime_ms, self.quick_ramp_ms) if quick
                         else (self.runtime_ms, self.ramp_ms))
        spec = replace(TABLE_IV_CASES[self.case], runtime_ns=int(runtime * MS),
                       ramp_ns=int(ramp * MS))
        # full-mode spans, as `repro fio` runs; checkers off
        obs = MetricsRegistry(mode="full")
        with _TimedPhase(tracer) as phase:
            res = run_case(self.scheme, spec, seed=seed, obs=obs, checks="off")
        fio, snapshot = res.fio, res.snapshot
        counters = snapshot["counters"]
        driver_cmds = sum(v for k, v in counters.items()
                          if k.startswith("driver_submitted{"))
        driver_errors = sum(v for k, v in counters.items()
                            if k.startswith("driver_errors{"))
        # Table V: the BM-Store column, or native for passthrough
        paper_us = PAPER_LATENCY_US[self.case][0 if self.scheme == "passthrough" else 1]
        record = _record(
            phase, ops=fio.ios, failed=fio.errors, latency=fio.latency,
            window_ns=fio.window_ns, events=fio.sim_events, snapshot=snapshot,
            counts={"driver_cmds": driver_cmds},
            checks={"no_driver_errors": driver_errors == 0,
                    **_span_checks(obs, engine_path=self.scheme == "bmstore")},
            outputs={"ios": fio.ios, "errors": fio.errors,
                     "per_target": fio.per_target_ios},
        )
        record["anchor_err_pct"] = (
            abs(fio.latency.mean_us - paper_us) / paper_us * 100)
        return record


@dataclass(frozen=True)
class KVWorkload:
    """MiniKV with pushdown point lookups under YCSB-B, uniform keys."""

    records: int
    runtime_ms: float
    quick_records: int
    quick_runtime_ms: float

    def run(self, seed: int, quick: bool, tracer) -> dict:
        from repro.apps.minikv import MiniKV, MiniKVConfig
        from repro.baselines import build_bmstore
        from repro.obs import MetricsRegistry
        from repro.sim.units import MIB, MS
        from repro.workloads.ycsb import YCSB_WORKLOADS, YCSBRun

        records, runtime = ((self.quick_records, self.quick_runtime_ms) if quick
                            else (self.records, self.runtime_ms))
        obs = MetricsRegistry(mode="full")
        rig = build_bmstore(num_ssds=2, seed=seed, obs=obs, checks=False)
        sim = rig.sim
        driver = rig.baremetal_driver(rig.provision("kv", 256 * MIB))
        kv = MiniKV(sim, driver, MiniKVConfig(
            memtable_bytes=64 * 1024, wal_ring_blocks=64,
            indexed_tables=True, pushdown_reads=True))
        wrong = _check_values(kv)
        spec = replace(YCSB_WORKLOADS["B"], zipf_theta=0.0, record_count=records,
                       threads=8, runtime_ns=int(runtime * MS),
                       ramp_ns=int(runtime * MS / 10))
        ycsb = YCSBRun(sim, kv, spec, rig.streams)
        installed = []

        def load_and_install():
            yield from ycsb.load()
            info = yield from kv.install_pushdown()
            installed.append(info.ok)

        sim.run(sim.process(load_and_install(), name="bench.load"))

        def totals():
            s = kv.stats
            push = rig.engine.push.stat("kv")
            # compaction re-reads whole tables; those block reads are
            # not issued by gets (YCSB-B issues no scans)
            return {"events": sim.events_processed,
                    "driver_cmds": driver.stats.submitted,
                    "gets": s.gets,
                    "get_device_reads": (s.index_reads + s.block_reads
                                         - s.compacted_bytes // 4096
                                         + s.pushdown_gets + s.pushdown_fallbacks),
                    "push_execs": push["execs"],
                    "push_backend_reads": push["backend_reads"],
                    "pushdown_fallbacks": s.pushdown_fallbacks}

        before = totals()
        with _TimedPhase(tracer) as phase:
            ycsb.start()
            sim.run(ycsb.finished)
        after = totals()
        delta = {k: after[k] - before[k] for k in after}
        result = ycsb.result()
        counts = {k: delta[k] for k in ("driver_cmds", "gets", "get_device_reads",
                                        "push_execs", "push_backend_reads")}
        return _record(
            phase, ops=result.ops, failed=wrong[0],
            latency=result.latency, window_ns=result.window_ns,
            events=delta["events"], snapshot=obs.snapshot(), counts=counts,
            checks={"pushdown_installed": installed == [True],
                    "no_missing_keys": result.failed_reads == 0,
                    "no_pushdown_fallbacks": after["pushdown_fallbacks"] == 0,
                    **_span_checks(obs, engine_path=True)},
            outputs={"ops": result.ops, "per_op": result.per_op,
                     "kv_stats": asdict(kv.stats),
                     "push": rig.engine.push.stat("kv")},
        )


def _check_values(kv) -> list:
    """Wrap ``kv.put``/``kv.get`` so every get is checked against the
    values written; returns a one-element list counting wrong or
    missing values.

    A get may return the value of the last put to its key that had
    completed when the get started, or of any put made since.
    """
    written: dict = {}
    completed: dict = {}
    wrong = [0]
    put, get = kv.put, kv.get

    def checked_put(key, value):
        written.setdefault(key, []).append(value)
        yield from put(key, value)
        completed[key] = completed.get(key, 0) + 1

    def checked_get(key):
        oldest = max(0, completed.get(key, 0) - 1)
        value = yield from get(key)
        allowed = written.get(key, [])[oldest:]
        if not (value in allowed if allowed else value is None):
            wrong[0] += 1
        return value

    kv.put, kv.get = checked_put, checked_get
    return wrong


#: name -> workload; see README.md for why each was chosen
WORKLOADS = {
    "rr128-bmstore": FioWorkload("bmstore", "rand-r-128", runtime_ms=15, ramp_ms=4,
                                 quick_runtime_ms=1, quick_ramp_ms=1),
    "rr128-passthrough": FioWorkload("passthrough", "rand-r-128", runtime_ms=15,
                                     ramp_ms=4, quick_runtime_ms=1, quick_ramp_ms=1),
    "sw256-bmstore": FioWorkload("bmstore", "seq-w-256", runtime_ms=600, ramp_ms=120,
                                 quick_runtime_ms=120, quick_ramp_ms=100),
    "kv-ycsb-push": KVWorkload(records=5000, runtime_ms=120,
                               quick_records=1500, quick_runtime_ms=5),
}
