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

from ..sim import BandwidthLink, RandomStream, Resource, Simulator, failure
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
        self._drain_pname = f"{name}.drain"

    def read(self, nbytes: int, then) -> None:
        """One media read of ``nbytes``; ``then(event)`` runs once it is
        done, with the event the read last waited on."""
        op = _MediaOp(self, nbytes, then, _MediaOp._read_way)
        if self._read_ways.try_acquire():
            op._read_way(None)
        else:
            self.sim.wait(self._read_ways.acquire(), op)

    def write(self, nbytes: int, then) -> None:
        """One write, acked from the write-back buffer; ``then(event)``
        runs at the ack.

        The command completes once a buffer slot is held and the
        buffered-ack time has passed; programming the media happens in
        the background and frees the slot.  At low queue depth this
        gives cache-hit latency; at saturation throughput equals the
        background drain rate (ways over access+bus service).
        """
        op = _MediaOp(self, nbytes, then, _MediaOp._write_slot)
        if self._write_buffer.try_acquire():
            op._write_slot(None)
        else:
            self.sim.wait(self._write_buffer.acquire(), op)

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

    def flush(self, then) -> None:
        """Flush is a buffer drain, bounded by the write bus backlog;
        ``then(event)`` runs once it is done."""
        backlog_ns = max(0, self._write_bus.busy_until() - self.sim.now)
        self.sim.timeout(backlog_ns + self.profile.write_access_ns).callbacks.append(then)


class _MediaOp:
    """One media read or buffered write in flight.

    The op is the continuation of every event it waits on (a fresh
    timer by appending to it, anything else through
    :meth:`~repro.sim.Simulator.wait`); ``step`` is its state, the step
    that runs next.  When the op is done, ``then`` runs in the same
    dispatch, with the op's last event."""

    __slots__ = ("flash", "nbytes", "then", "step")

    def __init__(self, flash: FlashBackend, nbytes: int, then, step):
        self.flash = flash
        self.nbytes = nbytes
        self.then = then
        self.step = step

    def __call__(self, ev) -> None:
        if not ev._ok:
            raise failure(ev)
        self.step(self, ev)

    # read: a way, the die access, then the shared read bus
    def _read_way(self, _ev) -> None:
        flash = self.flash
        profile = flash.profile
        access = flash.rng.jitter_ns(profile.read_access_ns, profile.jitter_cv)
        self.step = _MediaOp._read_access
        flash.sim.timeout(access).callbacks.append(self)

    def _read_access(self, _ev) -> None:
        self.step = _MediaOp._read_bus
        self.flash.sim.wait(self.flash._read_bus.transfer(self.nbytes), self)

    def _read_bus(self, ev) -> None:
        flash = self.flash
        flash._read_ways.release()
        flash.stats.reads += 1
        flash.stats.read_bytes += self.nbytes
        self.then(ev)

    # write: a buffer slot, then the buffered-ack time
    def _write_slot(self, _ev) -> None:
        flash = self.flash
        profile = flash.profile
        ack = flash.rng.jitter_ns(profile.write_ack_ns, profile.jitter_cv)
        self.step = _MediaOp._write_ack
        flash.sim.timeout(ack).callbacks.append(self)

    def _write_ack(self, ev) -> None:
        flash = self.flash
        flash.sim.start(flash._drain(self.nbytes), name=flash._drain_pname)
        flash.stats.writes += 1
        flash.stats.write_bytes += self.nbytes
        self.then(ev)
