"""YCSB workload generator driving MiniKV (the paper's RocksDB role).

Implements the standard core workloads (A-F): zipfian key choice,
read/update/insert/scan/read-modify-write mixes, a load phase, and a
timed run phase with closed-loop client threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..analysis.metrics import LatencyStats
from ..apps.minikv import MiniKV
from ..sim import Event, RandomStream, SimulationError, Simulator, StreamFactory
from ..sim.units import MS

__all__ = ["YCSBSpec", "YCSB_WORKLOADS", "YCSBResult", "YCSBRun", "run_ycsb"]


@dataclass(frozen=True)
class YCSBSpec:
    """One YCSB workload configuration."""

    name: str
    read: float
    update: float
    insert: float
    scan: float
    rmw: float
    record_count: int = 10_000
    value_bytes: int = 100
    threads: int = 8
    runtime_ns: int = 40 * MS
    ramp_ns: int = 4 * MS
    zipf_theta: float = 0.99
    scan_length: int = 20

    def __post_init__(self) -> None:
        total = self.read + self.update + self.insert + self.scan + self.rmw
        if abs(total - 1.0) > 1e-9:
            raise SimulationError(f"YCSB mix of {self.name} sums to {total}")


YCSB_WORKLOADS: dict[str, YCSBSpec] = {
    "A": YCSBSpec("A", read=0.5, update=0.5, insert=0.0, scan=0.0, rmw=0.0),
    "B": YCSBSpec("B", read=0.95, update=0.05, insert=0.0, scan=0.0, rmw=0.0),
    "C": YCSBSpec("C", read=1.0, update=0.0, insert=0.0, scan=0.0, rmw=0.0),
    "D": YCSBSpec("D", read=0.95, update=0.0, insert=0.05, scan=0.0, rmw=0.0),
    "E": YCSBSpec("E", read=0.0, update=0.0, insert=0.05, scan=0.95, rmw=0.0),
    "F": YCSBSpec("F", read=0.5, update=0.0, insert=0.0, scan=0.0, rmw=0.5),
}


def _key(index: int) -> bytes:
    return b"user%012d" % index


@dataclass
class YCSBResult:
    """Measured YCSB output: ops, per-op mix, latency distribution."""
    spec: YCSBSpec
    ops: int
    window_ns: int
    latency: Optional[LatencyStats]
    per_op: dict[str, int] = field(default_factory=dict)
    failed_reads: int = 0

    @property
    def throughput_ops(self) -> float:
        return self.ops * 1e9 / self.window_ns if self.window_ns else 0.0


class YCSBRun:
    """Load + timed run against one MiniKV instance."""

    def __init__(
        self,
        sim: Simulator,
        db: MiniKV,
        spec: YCSBSpec,
        streams: StreamFactory,
        tag: str = "ycsb",
    ):
        self.sim = sim
        self.db = db
        self.spec = spec
        self.streams = streams
        self.tag = tag
        self._ops = 0
        self._latencies: list[int] = []
        self._per_op: dict[str, int] = {}
        self._failed_reads = 0
        self._inserted = spec.record_count
        self.finished: Event = sim.event(name=f"{tag}.finished")
        self._live = 0
        self._window_start = 0
        self._window_end = 0

    # ------------------------------------------------------------------ load
    def load(self):
        """Process generator: the YCSB load phase."""
        rng = self.streams.stream(f"{self.tag}.load")
        for i in range(self.spec.record_count):
            value = self._value(rng)
            yield from self.db.put(_key(i), value)

    def _value(self, rng: RandomStream) -> bytes:
        return bytes(rng.randint(1, 255) for _ in range(min(16, self.spec.value_bytes))).ljust(
            self.spec.value_bytes, b"v"
        )

    # ------------------------------------------------------------------- run
    def start(self) -> None:
        self._window_start = self.sim.now + self.spec.ramp_ns
        self._window_end = self._window_start + self.spec.runtime_ns
        for t in range(self.spec.threads):
            self._live += 1
            rng = self.streams.stream(f"{self.tag}.t{t}", extra=t)
            self.sim.spawn(self._client(rng), name=f"{self.tag}.c{t}")

    def _pick_op(self, rng: RandomStream) -> str:
        x = rng.random()
        spec = self.spec
        for op, p in (
            ("read", spec.read), ("update", spec.update), ("insert", spec.insert),
            ("scan", spec.scan), ("rmw", spec.rmw),
        ):
            if x < p:
                return op
            x -= p
        return "read"

    def _client(self, rng: RandomStream):
        spec = self.spec
        while self.sim.now < self._window_end:
            op = self._pick_op(rng)
            start = self.sim.now
            idx = rng.zipf_index(self._inserted, spec.zipf_theta)
            if op == "read":
                value = yield from self.db.get(_key(idx))
                if value is None:
                    self._failed_reads += 1
            elif op == "update":
                yield from self.db.put(_key(idx), self._value(rng))
            elif op == "insert":
                self._inserted += 1
                yield from self.db.put(_key(self._inserted - 1), self._value(rng))
            elif op == "scan":
                yield from self.db.scan(
                    _key(idx), _key(min(self._inserted, idx + 1000)),
                    limit=spec.scan_length,
                )
            elif op == "rmw":
                yield from self.db.get(_key(idx))
                yield from self.db.put(_key(idx), self._value(rng))
            finish = self.sim.now
            if self._window_start <= finish <= self._window_end:
                self._ops += 1
                self._latencies.append(finish - start)
                self._per_op[op] = self._per_op.get(op, 0) + 1
        self._live -= 1
        if self._live == 0:
            self.finished.succeed()

    def result(self) -> YCSBResult:
        return YCSBResult(
            spec=self.spec,
            ops=self._ops,
            window_ns=self.spec.runtime_ns,
            latency=LatencyStats.from_samples(self._latencies) if self._latencies else None,
            per_op=dict(self._per_op),
            failed_reads=self._failed_reads,
        )


def run_ycsb(
    sim: Simulator,
    db: MiniKV,
    spec: YCSBSpec,
    streams: StreamFactory,
    tag: str = "ycsb",
) -> YCSBResult:
    """Load, run to completion, and return the result."""
    run = YCSBRun(sim, db, spec, streams, tag=tag)
    loaded = sim.process(run.load(), name=f"{tag}.load")
    sim.run(loaded)
    run.start()
    sim.run(run.finished)
    return run.result()
