"""Trace-driven workloads: synthetic block traces and a timed replayer.

Production storage evaluation often replays block traces (the
MSR-Cambridge style).  This module generates synthetic traces with the
knobs that matter — arrival burstiness, read/write mix, spatial skew,
size distribution — and replays them *open loop* against any
BlockTarget, reporting completion latency including queueing behind
bursts (where scheme differences compound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..analysis.metrics import LatencyStats
from ..host.block import BlockTarget
from ..sim import RandomStream, SimulationError, Simulator
from ..sim.units import MS

__all__ = [
    "TraceRecord",
    "TraceProfile",
    "TRACE_PROFILES",
    "generate_trace",
    "TraceResult",
    "replay_trace",
]


@dataclass(frozen=True)
class TraceRecord:
    """One trace event: arrival time, direction, LBA extent."""
    timestamp_ns: int
    op: str  # "read" | "write"
    lba: int
    nblocks: int


@dataclass(frozen=True)
class TraceProfile:
    """Shape of one synthetic workload class."""

    name: str
    read_fraction: float
    #: mean arrival rate inside a burst / between bursts (IOPS)
    burst_iops: float
    idle_iops: float
    burst_ms: float = 2.0
    idle_ms: float = 4.0
    #: fraction of accesses landing in the hot region
    hot_fraction: float = 0.8
    hot_region_fraction: float = 0.1
    #: request sizes in blocks with weights
    sizes: tuple[tuple[int, float], ...] = ((1, 0.6), (2, 0.2), (8, 0.15), (32, 0.05))


TRACE_PROFILES: dict[str, TraceProfile] = {
    # front-end web tier: read-heavy, small, bursty
    "web": TraceProfile("web", read_fraction=0.95, burst_iops=120_000.0,
                        idle_iops=8_000.0),
    # OLTP data files: mixed, strongly skewed
    "oltp": TraceProfile("oltp", read_fraction=0.70, burst_iops=80_000.0,
                         idle_iops=20_000.0, hot_fraction=0.9,
                         hot_region_fraction=0.05),
    # backup/ingest: large sequentialish writes
    "backup": TraceProfile("backup", read_fraction=0.05, burst_iops=12_000.0,
                           idle_iops=4_000.0, hot_fraction=0.2,
                           hot_region_fraction=0.5,
                           sizes=((32, 0.7), (8, 0.2), (1, 0.1))),
}


def generate_trace(
    profile: TraceProfile,
    duration_ns: int,
    region_blocks: int,
    rng: RandomStream,
) -> list[TraceRecord]:
    """Synthesize an on/off-bursty arrival trace over ``duration_ns``."""
    records: list[TraceRecord] = []
    t = 0
    hot_blocks = max(1, int(region_blocks * profile.hot_region_fraction))
    sizes, weights = zip(*profile.sizes)
    total_w = sum(weights)
    while t < duration_ns:
        in_burst = (t // MS) % int(profile.burst_ms + profile.idle_ms) < profile.burst_ms
        rate = profile.burst_iops if in_burst else profile.idle_iops
        gap = max(100, int(rng.expovariate(rate) * 1e9))
        t += gap
        if t >= duration_ns:
            break
        x = rng.random() * total_w
        nblocks = sizes[-1]
        for size, weight in profile.sizes:
            if x < weight:
                nblocks = size
                break
            x -= weight
        if rng.random() < profile.hot_fraction:
            lba = rng.randint(0, max(0, hot_blocks - nblocks))
        else:
            lba = rng.randint(0, max(0, region_blocks - nblocks))
        op = "read" if rng.random() < profile.read_fraction else "write"
        records.append(TraceRecord(t, op, lba, nblocks))
    return records


@dataclass
class TraceResult:
    """Replay outcome: completion counts and latency distributions."""
    issued: int
    completed: int
    errors: int
    latency: Optional[LatencyStats]
    read_latency: Optional[LatencyStats]
    write_latency: Optional[LatencyStats]
    elapsed_ns: int

    @property
    def iops(self) -> float:
        return self.completed * 1e9 / self.elapsed_ns if self.elapsed_ns else 0.0


def replay_trace(
    sim: Simulator,
    target: BlockTarget,
    records: Sequence[TraceRecord],
    tag: str = "trace",
) -> TraceResult:
    """Open-loop replay: issue each record at its timestamp, collect
    completion latencies (queueing behind bursts included)."""
    if not records:
        raise SimulationError("empty trace")
    lat_all: list[int] = []
    lat_read: list[int] = []
    lat_write: list[int] = []
    state = {"completed": 0, "errors": 0}
    t0 = sim.now
    finished = sim.event(name=f"{tag}.done")
    total = len(records)

    def on_done(record: TraceRecord, issue_ns: int, info) -> None:
        state["completed"] += 1
        if not info.ok:
            state["errors"] += 1
        latency = sim.now - issue_ns
        lat_all.append(latency)
        (lat_read if record.op == "read" else lat_write).append(latency)
        if state["completed"] == total:
            finished.succeed()

    def issuer():
        for record in records:
            due = t0 + record.timestamp_ns
            if due > sim.now:
                yield sim.timeout(due - sim.now)
            issue_ns = sim.now
            if record.op == "read":
                ev = target.read(record.lba, record.nblocks)
            else:
                ev = target.write(record.lba, record.nblocks)
            ev.callbacks.append(
                lambda e, r=record, t=issue_ns: on_done(r, t, e.value)
            )

    sim.spawn(issuer(), name=f"{tag}.issuer")
    sim.run(finished)
    return TraceResult(
        issued=total,
        completed=state["completed"],
        errors=state["errors"],
        latency=LatencyStats.from_samples(lat_all) if lat_all else None,
        read_latency=LatencyStats.from_samples(lat_read) if lat_read else None,
        write_latency=LatencyStats.from_samples(lat_write) if lat_write else None,
        elapsed_ns=sim.now - t0,
    )
