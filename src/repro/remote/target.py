"""Remote storage target: the far end of the §VI-D extension.

A storage server reached over the network, serving block commands from
its own flash (an NVMe-oF target in spirit): per-command target-side
CPU, then media service on a local drive model.
"""

from __future__ import annotations

from typing import Optional

from ..nvme.flash import FlashBackend, FlashProfile, P4510_PROFILE
from ..sim import Event, Simulator, StreamFactory

__all__ = ["RemoteCompletion", "RemoteStorageTarget"]

LBA_BYTES = 4096


class RemoteCompletion:
    """Result of one remote capsule: status + optional data."""
    __slots__ = ("ok", "data")

    def __init__(self, ok: bool, data: Optional[bytes] = None):
        self.ok = ok
        self.data = data


class RemoteStorageTarget:
    """One remote server exporting a block volume."""

    def __init__(
        self,
        sim: Simulator,
        streams: StreamFactory,
        name: str = "remote0",
        profile: FlashProfile = P4510_PROFILE,
        target_cpu_ns: int = 2_000,
    ):
        self.sim = sim
        self.name = name
        self.profile = profile
        self.target_cpu_ns = target_cpu_ns
        self.flash = FlashBackend(
            sim, profile, streams.stream(f"{name}.flash"), name=f"{name}.flash"
        )
        self._blocks: dict[int, bytes] = {}
        self.commands = 0

    @property
    def capacity_bytes(self) -> int:
        return self.profile.capacity_bytes

    @property
    def num_blocks(self) -> int:
        return self.capacity_bytes // LBA_BYTES

    def execute(self, op: str, lba: int, nblocks: int,
                payload: Optional[bytes] = None) -> Event:
        """Serve one capsule; the event fires with a RemoteCompletion."""
        done = self.sim.event(name=f"{self.name}.cmd")
        self.sim.spawn(self._serve(op, lba, nblocks, payload, done),
                       name=f"{self.name}.serve")
        return done

    def _serve(self, op, lba, nblocks, payload, done: Event):
        self.commands += 1
        if lba < 0 or lba + nblocks > self.num_blocks:
            done.succeed(RemoteCompletion(ok=False))
            return
        yield self.sim.timeout(self.target_cpu_ns)
        length = nblocks * LBA_BYTES
        if op == "read":
            yield from self.flash.read(length)
            data = None
            if any((lba + i) in self._blocks for i in range(nblocks)):
                data = b"".join(
                    self._blocks.get(lba + i, bytes(LBA_BYTES))
                    for i in range(nblocks)
                )
            done.succeed(RemoteCompletion(ok=True, data=data))
            return
        if op == "write":
            if payload is not None:
                for i in range(nblocks):
                    self._blocks[lba + i] = payload[
                        i * LBA_BYTES : (i + 1) * LBA_BYTES
                    ].ljust(LBA_BYTES, b"\0")
            yield from self.flash.write(length)
            done.succeed(RemoteCompletion(ok=True))
            return
        if op == "flush":
            yield from self.flash.flush()
            done.succeed(RemoteCompletion(ok=True))
            return
        done.succeed(RemoteCompletion(ok=False))
