"""SATA disk model (HDD and SATA-SSD profiles).

Paper §VI-A: BM-Store's compatibility story includes SATA devices —
"we have to add the logic of the SATA controller to the Host Adaptor
... then develop a module in BMS-Controller to process SATA protocol".
This module is the device those attach to: an NCQ-depth-limited drive
with a mechanical service model (seek distance + rotational latency +
media transfer) for HDDs, or a flat flash profile for SATA SSDs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim import Event, RandomStream, Resource, Simulator
from ..sim.units import ms, us

__all__ = ["SATAProfile", "HDD_7200_PROFILE", "SATA_SSD_PROFILE", "SATADisk"]

LBA_BYTES = 4096


@dataclass(frozen=True)
class SATAProfile:
    """Calibration constants for one SATA device."""

    name: str
    capacity_bytes: int
    #: mechanical seek: base + span * sqrt(distance_fraction); 0 for SSDs
    seek_base_ns: int
    seek_span_ns: int
    rotational_rpm: int  # 0 for SSDs
    transfer_bytes_per_sec: float
    ncq_depth: int = 32
    command_overhead_ns: int = 20_000  # SATA FIS / link overhead


#: a nearline 7200rpm HDD (e.g. the capacity tier of local storage)
HDD_7200_PROFILE = SATAProfile(
    name="sata-hdd-7200",
    capacity_bytes=8_000_000_000_000,
    seek_base_ns=ms(0.8),
    seek_span_ns=ms(7.5),
    rotational_rpm=7200,
    transfer_bytes_per_sec=220e6,
)

#: a SATA SSD (flat access, 550/520 MB/s class, interface-bound)
SATA_SSD_PROFILE = SATAProfile(
    name="sata-ssd",
    capacity_bytes=1_920_000_000_000,
    seek_base_ns=us(55),
    seek_span_ns=0,
    rotational_rpm=0,
    transfer_bytes_per_sec=540e6,
    command_overhead_ns=12_000,
)


class SATACompletion:
    """Result of one SATA command: status + optional data."""
    __slots__ = ("ok", "data")

    def __init__(self, ok: bool, data: Optional[bytes] = None):
        self.ok = ok
        self.data = data


class SATADisk:
    """One SATA device behind the engine's SATA host-adaptor logic."""

    def __init__(
        self,
        sim: Simulator,
        profile: SATAProfile,
        rng: RandomStream,
        name: str = "sata0",
    ):
        self.sim = sim
        self.profile = profile
        self.rng = rng
        self.name = name
        self._ncq = Resource(sim, profile.ncq_depth, name=f"{name}.ncq")
        self._actuator = Resource(sim, 1, name=f"{name}.arm")
        from ..sim import BandwidthLink

        #: the SATA interface (and flash array) data path for SSDs
        self._bus = BandwidthLink(sim, profile.transfer_bytes_per_sec,
                                  name=f"{name}.bus")
        self._last_lba = 0
        self._blocks: dict[int, bytes] = {}
        self.reads = 0
        self.writes = 0
        self.read_bytes = 0
        self.write_bytes = 0

    @property
    def num_blocks(self) -> int:
        return self.profile.capacity_bytes // LBA_BYTES

    # ------------------------------------------------------------- commands
    def submit(
        self,
        op: str,
        lba: int,
        nblocks: int,
        payload: Optional[bytes] = None,
        want_data: bool = False,
    ) -> Event:
        """Queue one command; the event fires with a SATACompletion."""
        done = self.sim.event(name=f"{self.name}.cmd")
        self.sim.spawn(
            self._execute(op, lba, nblocks, payload, want_data, done),
            name=f"{self.name}.exec",
        )
        return done

    @property
    def is_mechanical(self) -> bool:
        return self.profile.rotational_rpm > 0

    def _mechanical_service_ns(self, lba: int, nblocks: int) -> int:
        profile = self.profile
        distance = abs(lba - self._last_lba) / max(1, self.num_blocks)
        service = profile.command_overhead_ns
        service += int(profile.seek_base_ns + profile.seek_span_ns * distance ** 0.5)
        half_turn_ns = int(60e9 / profile.rotational_rpm / 2)
        service += self.rng.randint(0, 2 * half_turn_ns)
        service += int(nblocks * LBA_BYTES * 1e9 / profile.transfer_bytes_per_sec)
        return service

    def _execute(self, op, lba, nblocks, payload, want_data, done: Event):
        if lba < 0 or lba + nblocks > self.num_blocks:
            done.succeed(SATACompletion(ok=False))
            return
        yield self._ncq.acquire()
        try:
            if self.is_mechanical:
                # one actuator: seek + rotation + media transfer, serialized
                yield self._actuator.acquire()
                try:
                    yield self.sim.timeout(self._mechanical_service_ns(lba, nblocks))
                    self._last_lba = lba + nblocks
                finally:
                    self._actuator.release()
            else:
                # flash: NCQ-parallel access, shared SATA interface bus
                yield self.sim.timeout(
                    self.profile.command_overhead_ns + self.profile.seek_base_ns
                )
                yield self._bus.transfer(nblocks * LBA_BYTES)
        finally:
            self._ncq.release()
        data = None
        if op == "write":
            self.writes += 1
            self.write_bytes += nblocks * LBA_BYTES
            if payload is not None:
                for i in range(nblocks):
                    self._blocks[lba + i] = payload[
                        i * LBA_BYTES : (i + 1) * LBA_BYTES
                    ].ljust(LBA_BYTES, b"\0")
        elif op == "read":
            self.reads += 1
            self.read_bytes += nblocks * LBA_BYTES
            if want_data or any((lba + i) in self._blocks for i in range(nblocks)):
                data = b"".join(
                    self._blocks.get(lba + i, bytes(LBA_BYTES))
                    for i in range(nblocks)
                )
        elif op == "flush":
            pass  # mechanical drives: handled by the seek/transfer model
        else:
            done.succeed(SATACompletion(ok=False))
            return
        done.succeed(SATACompletion(ok=True, data=data))

    def block_data(self, lba: int) -> Optional[bytes]:
        return self._blocks.get(lba)
