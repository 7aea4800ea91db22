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
from ..sim import Event, RandomStream, SimulationError, Simulator, StreamFactory, failure
from ..sim.units import MS

__all__ = ["FioSpec", "FioResult", "FioRun", "FioWorker", "run_fio", "TABLE_IV_CASES"]


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
        #: a job's pacing between I/Os in ns; 0 = closed loop
        self._pace_interval = 0
        if spec.rate_mbps:
            self._pace_interval = int(spec.block_bytes * 1e9 / (spec.rate_mbps * 1e6))
        for job in range(spec.numjobs):
            target = self.targets[job % len(self.targets)]
            rng = streams.stream(f"{tag}.job{job}", extra=job)
            for worker in range(spec.iodepth):
                self._live_jobs += 1
                sim.timeout(0).callbacks.append(
                    FioWorker(self, job, worker, target, rng))

    def _region(self, target: BlockTarget) -> int:
        region = self.spec.region_blocks or target.num_blocks
        return max(self.spec.nblocks, min(region, target.num_blocks))

    def _worker_done(self) -> None:
        self._live_jobs -= 1
        if self._live_jobs == 0:
            self.finished.succeed()

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


class FioWorker:
    """One of a job's ``iodepth`` closed-loop I/O slots: pick an LBA,
    issue, wait for the completion, count it, repeat until the window
    ends.

    The worker is the continuation of the event it waits on (its start,
    a pacing timer or an I/O's completion), and ``step`` is its state:
    the step that runs next.
    """

    __slots__ = ("run", "job", "target", "rng", "region", "seq_span",
                 "seq_base", "seq_off", "step")

    def __init__(self, run: FioRun, job: int, worker: int, target: BlockTarget,
                 rng: RandomStream):
        spec = run.spec
        self.run = run
        self.job = job
        self.target = target
        self.rng = rng
        self.region = region = run._region(target)
        nblocks = spec.nblocks
        # sequential workers stride through a per-worker slice, as fio
        # offsets multiple jobs to avoid re-reading one another's data
        self.seq_span = max(nblocks, region // max(1, spec.numjobs * spec.iodepth))
        self.seq_base = ((job * spec.iodepth + worker) * self.seq_span) % max(
            1, region - nblocks + 1)
        self.seq_off = 0
        self.step = FioWorker._next

    def __call__(self, ev: Event) -> None:
        if not ev._ok:
            raise failure(ev)
        self.step(self, ev._value)

    def _next(self, _value=None) -> None:
        """The loop's head: pace, issue, or leave once the window ends."""
        run = self.run
        sim = run.sim
        if sim.now >= run._window_end:
            run._worker_done()
            return
        pace = run._pace_interval
        if pace:
            slot = max(sim.now, run._pace_next.get(self.job, 0))
            run._pace_next[self.job] = slot + pace
            if slot > sim.now:
                self.step = FioWorker._issue
                sim.timeout(slot - sim.now).callbacks.append(self)
                return
        self._issue()

    def _issue(self, _value=None) -> None:
        run = self.run
        spec = run.spec
        nblocks = spec.nblocks
        if spec.is_random:
            lba = self.rng.randint(0, max(0, self.region - nblocks))
        else:
            lba = self.seq_base + self.seq_off
            self.seq_off += nblocks
            if lba + nblocks > self.region or self.seq_off >= self.seq_span:
                self.seq_off = 0
                lba = self.seq_base
        if spec.is_read:
            done = self.target.read(lba, nblocks)
        else:
            done = self.target.write(lba, nblocks)
        self.step = FioWorker._completed
        run.sim.wait(done, self)

    def _completed(self, info) -> None:
        run = self.run
        finish = run.sim.now
        if run._window_start <= finish <= run._window_end:
            # a failed I/O moved no data: it counts as an error only
            if not info.ok:
                run._errors += 1
            else:
                run._ios += 1
                run._latencies.append(info.latency_ns)
                idx = run.targets.index(self.target)
                run._per_target[idx] = run._per_target.get(idx, 0) + 1
        self._next()


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
