"""Remote storage target: the far end of the §VI-D extension.

A storage server reached over the network, serving block commands from
its own flash (an NVMe-oF target in spirit): per-command target-side
CPU, then media service on a local drive model.
"""

from __future__ import annotations

from typing import Optional

from ..nvme.flash import FlashBackend, FlashProfile, P4510_PROFILE
from ..sim import Event, Simulator, StreamFactory, failure

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
        capsule = _Capsule(self, op, lba, nblocks, payload, done)
        self.sim.timeout(0).callbacks.append(capsule)
        return done


class _Capsule:
    """One capsule in service: target CPU time, then the media op.  The
    capsule is the continuation of both; ``step`` runs next."""

    __slots__ = ("target", "op", "lba", "nblocks", "payload", "done", "step")

    def __init__(self, target: RemoteStorageTarget, op: str, lba: int,
                 nblocks: int, payload: Optional[bytes], done: Event):
        self.target = target
        self.op = op
        self.lba = lba
        self.nblocks = nblocks
        self.payload = payload
        self.done = done
        self.step = _Capsule._arrive

    def __call__(self, ev: Event) -> None:
        if not ev._ok:
            raise failure(ev)
        self.step(self)

    def _arrive(self) -> None:
        target = self.target
        target.commands += 1
        if self.lba < 0 or self.lba + self.nblocks > target.num_blocks:
            self.done.succeed(RemoteCompletion(ok=False))
            return
        self.step = _Capsule._serve
        target.sim.timeout(target.target_cpu_ns).callbacks.append(self)

    def _serve(self) -> None:
        target = self.target
        lba, nblocks = self.lba, self.nblocks
        length = nblocks * LBA_BYTES
        if self.op == "read":
            self.step = _Capsule._read
            target.flash.read(length, self)
        elif self.op == "write":
            if self.payload is not None:
                for i in range(nblocks):
                    target._blocks[lba + i] = self.payload[
                        i * LBA_BYTES : (i + 1) * LBA_BYTES
                    ].ljust(LBA_BYTES, b"\0")
            self.step = _Capsule._served
            target.flash.write(length, self)
        elif self.op == "flush":
            self.step = _Capsule._served
            target.flash.flush(self)
        else:
            self.done.succeed(RemoteCompletion(ok=False))

    def _read(self) -> None:
        blocks = self.target._blocks
        lba, nblocks = self.lba, self.nblocks
        data = None
        if any((lba + i) in blocks for i in range(nblocks)):
            data = b"".join(
                blocks.get(lba + i, bytes(LBA_BYTES)) for i in range(nblocks)
            )
        self.done.succeed(RemoteCompletion(ok=True, data=data))

    def _served(self) -> None:
        self.done.succeed(RemoteCompletion(ok=True))
