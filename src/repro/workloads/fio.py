"""fio-like synthetic workload engine.

Reproduces the paper's Table IV test cases: closed-loop jobs
(``numjobs``) each keeping ``iodepth`` requests in flight against a
:class:`~repro.host.block.BlockTarget`, random or sequential, read or
write, with a ramp window excluded from measurement — the libaio
closed-loop model fio implements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..analysis.metrics import LatencyStats
from ..host.block import BlockTarget
from ..sim import Event, RandomStream, SimulationError, Simulator, StreamFactory
from ..sim.units import MS

__all__ = ["FioSpec", "FioResult", "FioRun", "run_fio", "TABLE_IV_CASES"]


@dataclass(frozen=True)
class FioSpec:
    """One fio test case."""

    name: str
    op: str  # "randread" | "randwrite" | "read" | "write"
    block_bytes: int = 4096
    iodepth: int = 1
    numjobs: int = 4
    runtime_ns: int = 50 * MS
    ramp_ns: int = 5 * MS
    region_blocks: Optional[int] = None  # None = whole device
    #: open-loop rate cap per job (fio's rate= option); None = closed loop
    rate_mbps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.op not in ("randread", "randwrite", "read", "write"):
            raise SimulationError(f"unknown fio op {self.op!r}")
        if self.iodepth < 1 or self.numjobs < 1:
            raise SimulationError("iodepth and numjobs must be >= 1")

    @property
    def is_read(self) -> bool:
        return self.op in ("randread", "read")

    @property
    def is_random(self) -> bool:
        return self.op.startswith("rand")

    @property
    def nblocks(self) -> int:
        return max(1, self.block_bytes // 4096)


#: The paper's Table IV (runtime scaled to simulation budgets; the
#: steady-state rates these cases measure converge within tens of ms).
TABLE_IV_CASES: dict[str, FioSpec] = {
    "rand-r-1": FioSpec("rand-r-1", "randread", 4096, iodepth=1, numjobs=4),
    "rand-r-128": FioSpec("rand-r-128", "randread", 4096, iodepth=128, numjobs=4),
    "rand-w-1": FioSpec("rand-w-1", "randwrite", 4096, iodepth=1, numjobs=4),
    "rand-w-16": FioSpec("rand-w-16", "randwrite", 4096, iodepth=16, numjobs=4),
    "seq-r-256": FioSpec(
        "seq-r-256", "read", 128 * 1024, iodepth=256, numjobs=4,
        runtime_ns=400 * MS, ramp_ns=80 * MS,
    ),
    "seq-w-256": FioSpec(
        "seq-w-256", "write", 128 * 1024, iodepth=256, numjobs=4,
        runtime_ns=600 * MS, ramp_ns=120 * MS,
    ),
}


@dataclass
class FioResult:
    """Measured output of one fio run (measurement window only).

    ``ios``, ``bytes_moved``, ``per_target_ios`` and ``latency`` count
    successful completions only; ``errors`` counts the window's I/Os
    that completed with a non-success status.
    """

    spec: FioSpec
    ios: int
    bytes_moved: int
    window_ns: int
    latency: Optional[LatencyStats]
    errors: int = 0
    per_target_ios: dict[int, int] = field(default_factory=dict)
    #: kernel events processed over the whole run (stamped by the
    #: experiment harness; the bench harness divides by wall time)
    sim_events: int = 0

    @property
    def iops(self) -> float:
        return self.ios * 1e9 / self.window_ns if self.window_ns else 0.0

    @property
    def bandwidth_bps(self) -> float:
        return self.bytes_moved * 1e9 / self.window_ns if self.window_ns else 0.0

    @property
    def bandwidth_mbps(self) -> float:
        return self.bandwidth_bps / 1e6

    @property
    def avg_latency_us(self) -> float:
        return self.latency.mean_us if self.latency else 0.0


class FioRun:
    """A running fio instance; collect with :meth:`result` after sim.run."""

    def __init__(
        self,
        sim: Simulator,
        targets: Sequence[BlockTarget],
        spec: FioSpec,
        streams: StreamFactory,
        start_ns: Optional[int] = None,
        tag: str = "fio",
    ):
        if not targets:
            raise SimulationError("fio needs at least one target")
        self.sim = sim
        self.targets = list(targets)
        self.spec = spec
        self.tag = tag
        self._start = start_ns if start_ns is not None else sim.now
        self._window_start = self._start + spec.ramp_ns
        self._window_end = self._start + spec.ramp_ns + spec.runtime_ns
        self._latencies: list[int] = []
        self._ios = 0
        self._errors = 0
        self._per_target: dict[int, int] = {}
        self.finished: Event = sim.event(name=f"{tag}.finished")
        self._live_jobs = 0
        self._pace_next: dict[int, int] = {}
        for job in range(spec.numjobs):
            target = self.targets[job % len(self.targets)]
            rng = streams.stream(f"{tag}.job{job}", extra=job)
            for worker in range(spec.iodepth):
                self._live_jobs += 1
                sim.spawn(
                    self._worker(job, worker, target, rng),
                    name=f"{tag}.j{job}w{worker}",
                )

    def _region(self, target: BlockTarget) -> int:
        region = self.spec.region_blocks or target.num_blocks
        return max(self.spec.nblocks, min(region, target.num_blocks))

    def _worker(self, job: int, worker: int, target: BlockTarget, rng: RandomStream):
        spec = self.spec
        region = self._region(target)
        nblocks = spec.nblocks
        # sequential workers stride through a per-worker slice, as fio
        # offsets multiple jobs to avoid re-reading one another's data
        seq_span = max(nblocks, region // max(1, spec.numjobs * spec.iodepth))
        seq_base = ((job * spec.iodepth + worker) * seq_span) % max(1, region - nblocks + 1)
        seq_off = 0
        pace_interval = 0
        if spec.rate_mbps:
            pace_interval = int(spec.block_bytes * 1e9 / (spec.rate_mbps * 1e6))
        while self.sim.now < self._window_end:
            if pace_interval:
                slot = max(self.sim.now, self._pace_next.get(job, 0))
                self._pace_next[job] = slot + pace_interval
                if slot > self.sim.now:
                    yield self.sim.timeout(slot - self.sim.now)
            if spec.is_random:
                lba = rng.randint(0, max(0, region - nblocks))
            else:
                lba = seq_base + seq_off
                seq_off += nblocks
                if lba + nblocks > region or seq_off >= seq_span:
                    seq_off = 0
                    lba = seq_base
            if spec.is_read:
                info = yield target.read(lba, nblocks)
            else:
                info = yield target.write(lba, nblocks)
            finish = self.sim.now
            if self._window_start <= finish <= self._window_end:
                # a failed I/O moved no data: it counts as an error only
                if not info.ok:
                    self._errors += 1
                    continue
                self._ios += 1
                self._latencies.append(info.latency_ns)
                idx = self.targets.index(target)
                self._per_target[idx] = self._per_target.get(idx, 0) + 1
        self._live_jobs -= 1
        if self._live_jobs == 0:
            self.finished.succeed()

    @property
    def end_time_ns(self) -> int:
        return self._window_end

    def result(self) -> FioResult:
        window = self.spec.runtime_ns
        return FioResult(
            spec=self.spec,
            ios=self._ios,
            bytes_moved=self._ios * self.spec.block_bytes,
            window_ns=window,
            latency=LatencyStats.from_samples(self._latencies) if self._latencies else None,
            errors=self._errors,
            per_target_ios=dict(self._per_target),
        )

    def latencies(self) -> list[int]:
        return list(self._latencies)


def run_fio(
    sim: Simulator,
    targets: Sequence[BlockTarget],
    spec: FioSpec,
    streams: StreamFactory,
    tag: str = "fio",
) -> FioResult:
    """Start a run and drive the simulation to its completion."""
    run = FioRun(sim, targets, spec, streams, tag=tag)
    sim.run(run.finished)
    return run.result()
