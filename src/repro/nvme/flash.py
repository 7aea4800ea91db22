"""Flash back-end performance model.

Calibrated to the Intel P4510 2 TB used in the paper (DESIGN.md §5):

* reads:  ``read_ways`` concurrent die operations of ``read_access_ns``
  each, sharing a ``read_bus`` at the drive's sequential-read rate.
  ``48 ways x ~74 us`` -> ~640 K 4K IOPS; the bus caps 128K sequential
  reads at ~3.2 GB/s.
* writes: a shallow write-buffer pipeline (``write_ways``) with a short
  ``write_access_ns`` (the buffer hit) over a ``write_bus`` at the
  sustained program rate (~1.4 GB/s) — giving the P4510's ~11.6 us
  qd1 write latency and ~356 K IOPS at qd64.

Service times carry a small lognormal jitter so latency distributions
have realistic tails without destroying determinism (dedicated stream).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import BandwidthLink, RandomStream, Resource, Simulator
from ..sim.units import us

__all__ = ["FlashProfile", "FlashBackend", "P4510_PROFILE"]


@dataclass(frozen=True)
class FlashProfile:
    """Calibration constants for one drive model."""

    name: str
    capacity_bytes: int
    read_ways: int
    read_access_ns: int
    read_bus_bytes_per_sec: float
    write_ways: int
    write_access_ns: int
    write_bus_bytes_per_sec: float
    #: write-back buffer: commands ack once buffered (fast), media
    #: programming drains in the background at the sustained rate
    write_buffer_depth: int = 64
    write_ack_ns: int = 4500
    jitter_cv: float = 0.02

    @property
    def max_random_read_iops(self) -> float:
        return self.read_ways / (self.read_access_ns / 1e9)

    @property
    def max_random_write_iops(self) -> float:
        per_op = self.write_access_ns / 1e9 + 4096 / self.write_bus_bytes_per_sec
        return self.write_ways / per_op


#: Intel SSD DC P4510 2.0 TB (paper Table III).
P4510_PROFILE = FlashProfile(
    name="intel-p4510-2tb",
    capacity_bytes=2_000_000_000_000,
    read_ways=48,
    read_access_ns=us(71.8),
    read_bus_bytes_per_sec=3.23e9,
    write_ways=4,
    write_access_ns=us(8.4),
    write_bus_bytes_per_sec=1.42e9,
)


@dataclass
class FlashStats:
    """Media operation and byte counters."""
    reads: int = 0
    writes: int = 0
    read_bytes: int = 0
    write_bytes: int = 0


class FlashBackend:
    """The media: concurrency-limited access plus shared data buses."""

    def __init__(
        self,
        sim: Simulator,
        profile: FlashProfile,
        rng: RandomStream,
        name: str = "flash",
    ):
        self.sim = sim
        self.profile = profile
        self.rng = rng
        self.name = name
        self._read_ways = Resource(sim, profile.read_ways, name=f"{name}.rways")
        self._write_ways = Resource(sim, profile.write_ways, name=f"{name}.wways")
        self._write_buffer = Resource(sim, profile.write_buffer_depth, name=f"{name}.wbuf")
        self._read_bus = BandwidthLink(sim, profile.read_bus_bytes_per_sec, name=f"{name}.rbus")
        self._write_bus = BandwidthLink(sim, profile.write_bus_bytes_per_sec, name=f"{name}.wbus")
        self.stats = FlashStats()

    def read(self, nbytes: int):
        """Process generator: one media read of ``nbytes``."""
        if not self._read_ways.try_acquire():
            yield self._read_ways.acquire()
        try:
            access = self.rng.jitter_ns(self.profile.read_access_ns, self.profile.jitter_cv)
            yield self.sim.timeout(access)
            yield self._read_bus.transfer(nbytes)
        finally:
            self._read_ways.release()
        self.stats.reads += 1
        self.stats.read_bytes += nbytes

    def write(self, nbytes: int):
        """Process generator: one write, acked from the write-back buffer.

        The command completes once a buffer slot is held and the
        buffered-ack time has passed; programming the media happens in
        the background and frees the slot.  At low queue depth this
        gives cache-hit latency; at saturation throughput equals the
        background drain rate (ways over access+bus service).
        """
        if not self._write_buffer.try_acquire():
            yield self._write_buffer.acquire()
        ack = self.rng.jitter_ns(self.profile.write_ack_ns, self.profile.jitter_cv)
        yield self.sim.timeout(ack)
        self.sim.start(self._drain(nbytes), name=f"{self.name}.drain")
        self.stats.writes += 1
        self.stats.write_bytes += nbytes

    def _drain(self, nbytes: int):
        """Background media program for one buffered write."""
        if not self._write_ways.try_acquire():
            yield self._write_ways.acquire()
        try:
            access = self.rng.jitter_ns(self.profile.write_access_ns, self.profile.jitter_cv)
            yield self.sim.timeout(access)
            yield self._write_bus.transfer(nbytes)
        finally:
            self._write_ways.release()
            self._write_buffer.release()

    def flush(self):
        """Flush is a buffer drain: bounded by the write bus backlog."""
        backlog_ns = max(0, self._write_bus.busy_until() - self.sim.now)
        yield self.sim.timeout(backlog_ns + self.profile.write_access_ns)
